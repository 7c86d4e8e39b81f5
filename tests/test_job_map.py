"""The job map of the harnesses (lv3.analysis._map_starts): the same bytes,
exit codes and errors from one CPU or several, and no child left behind.

The CPUs the map may use are set by patching os.sched_getaffinity: one CPU
maps in-process, two or three fork one or two children.
"""

import os
import threading

import pytest

import lv3.flow
from lv3 import analysis, cli

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the map forks only where os.fork exists")

MAPPED = {
    "verify-a": "verify-a --k 2,3,3,2 --samples 8 --seed 5",
    "verify-a-part-b": "verify-a --k 2,1,2,1 --samples 4 --seed 9",
    "verify-b": "verify-b --k 2,1,2,1 --samples 4 --seed 9",
    "period-profile": "period-profile --k 2,3,3,2 --n 5",
    "scan": "scan --slice 2,t,2,t --range 1.5,2.5 --steps 5",
    "portrait": "portrait --k 1,1,1,1 --n 5 --t 20",
}


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n): let the map see n CPUs; returns the list of forked pids."""
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        forked.clear()
        return forked

    return set_cpus


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(capsys, argv):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    _no_child_left()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", MAPPED.values(), ids=MAPPED)
def test_the_forked_map_prints_what_the_loop_prints(capsys, cpus, argv):
    cpus(1)
    sequential = _run(capsys, argv)
    for n in (2, 3):
        forked = cpus(n)
        assert _run(capsys, argv) == sequential
        assert len(forked) == n - 1


def test_a_start_that_raises_in_a_child_fails_as_in_the_loop(capsys, cpus, monkeypatch):
    # the five portrait orbits take 224, 222, 253, 247 and 360 steps: with a
    # budget of 250 the first to exhaust it is the third, in a child's chunk
    monkeypatch.setattr(lv3.flow, "MAX_ACCEPTED_STEPS", 250)
    argv = MAPPED["portrait"]
    cpus(1)
    sequential = _run(capsys, argv)
    assert sequential == (1, "", "lv3: accepted-step budget 250 exhausted\n")
    for n in (2, 3):
        forked = cpus(n)
        assert _run(capsys, argv) == sequential
        assert len(forked) == n - 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_map_keeps_item_order(cpus, n):
    forked = cpus(n)
    assert analysis._map_starts(lambda x: (x, x * x), range(7)) == [(x, x * x) for x in range(7)]
    assert len(forked) == n - 1
    assert analysis._map_starts(str, []) == []
    _no_child_left()


def test_the_children_compute_all_but_the_first_chunk(cpus):
    # a child's side effects stay in the child
    seen = []
    cpus(3)
    assert analysis._map_starts(lambda x: seen.append(x) or -x, range(6)) == [0, -1, -2, -3, -4, -5]
    assert seen == [0, 1]
    _no_child_left()


@pytest.mark.parametrize("bad", [{1, 4, 5}, {4, 5}, {5}])
def test_the_first_exception_in_item_order_is_raised(cpus, bad):
    def fn(x):
        if x in bad:
            raise ValueError(f"start {x}")
        return x

    cpus(3)  # chunks [0, 1], [2, 3], [4, 5]
    with pytest.raises(ValueError, match=f"^start {min(bad)}$"):
        analysis._map_starts(fn, range(6))
    _no_child_left()


class _Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_a_chunk_whose_child_sends_nothing_readable_runs_in_process(cpus):
    # the exception pickles, but cannot be rebuilt from its args: the parent
    # computes that chunk itself and raises the exception the loop raises
    seen = []

    def fn(x):
        seen.append(x)
        if x == 3:
            raise _Unpicklable(x, "three")
        return x

    forked = cpus(2)
    with pytest.raises(_Unpicklable, match="^3 and three$"):
        analysis._map_starts(fn, range(4))
    assert len(forked) == 1 and seen == [0, 1, 2, 3]
    _no_child_left()


def test_an_exception_of_the_first_chunk_kills_and_reaps_the_children(cpus):
    def fn(x):
        if x == 0:
            raise KeyError(x)
        threading.Event().wait(60.0)  # a child would sit here for a minute
        return x

    forked = cpus(2)
    with pytest.raises(KeyError):
        analysis._map_starts(fn, range(2))
    assert len(forked) == 1
    _no_child_left()


def test_a_second_thread_keeps_the_map_in_process(cpus):
    forked = cpus(2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert analysis._map_starts(abs, [-1, -2]) == [1, 2]
    finally:
        stop.set()
        thread.join()
    assert forked == []

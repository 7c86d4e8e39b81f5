"""The job map of the harnesses (lv3.analysis._map_starts) and the feed of
integrate's blocks (lv3.analysis._Feed): the same bytes, exit codes and
errors from one CPU or several, and no child left behind.

The CPUs the maps may use are set by patching os.sched_getaffinity: one CPU
maps in-process, two or three fork one or two children.  A feed forks
one child at most, at its first complete block.
"""

import math
import os
import subprocess
import sys
import threading
import time

import pytest

import lv3.flow
from lv3 import analysis, cli
from lv3.flow import Trajectory

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the map forks only where os.fork exists")

MAPPED = {
    "verify-a": "verify-a --k 2,3,3,2 --samples 8 --seed 5",
    "verify-a-part-b": "verify-a --k 2,1,2,1 --samples 4 --seed 9",
    "verify-b": "verify-b --k 2,1,2,1 --samples 4 --seed 9",
    "period-profile": "period-profile --k 2,3,3,2 --n 5",
    "scan": "scan --slice 2,t,2,t --range 1.5,2.5 --steps 5",
    "portrait": "portrait --k 1,1,1,1 --n 5 --t 20",
}


ROWS = analysis._Feed.ROWS
# integrate invocations and their sample counts: several blocks forward and
# backward, with and without monitors, fewer samples than one block, and
# one block plus one sample
STREAMED = {
    "csv-monitors": ("integrate --k 1,1,1,1 --p0 0.3,0.2,0.25 --t 30 --monitor H,V", 323),
    "csv-backward": ("integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 30 --backward", 878),
    "json-monitors": ("integrate --k 1,1,1,1 --p0 0.3,0.2,0.25 --t 30 --monitor H,V --format json", 323),
    "json-backward": ("integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 30 --backward --format json "
                      "--monitor H,V", 878),
    "short": ("integrate --k 1,1,1,1 --p0 0.3,0.2,0.25 --t 2 --monitor H,V", 28),
    "block-plus-one": ("integrate --k 1,1,1,1 --p0 0.3,0.2,0.25 --t 11.6 --monitor H,V", ROWS + 1),
    "block-plus-one-backward-json": (
        "integrate --k 2,3,3,2 --p0 0.2,0.2,0.2 --t 4.3 --backward --format json", ROWS + 1),
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


def _rows(out, fmt):
    return len(out.splitlines()) - (fmt == "csv")


@pytest.mark.parametrize("argv, samples", STREAMED.values(), ids=STREAMED)
def test_integrate_prints_the_same_on_every_cpu_count(capsys, cpus, monkeypatch, argv, samples):
    cpus(1)
    sequential = _run(capsys, argv)
    assert sequential[0] == 0 and sequential[2] == ""
    assert _rows(sequential[1], "json" if "json" in argv else "csv") == samples
    for n in (2, 3):
        forked = cpus(n)
        assert _run(capsys, argv) == sequential
        assert len(forked) == (samples >= ROWS)  # one child, from the first complete block

    def no_fork():
        raise OSError("no fork here")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _run(capsys, argv) == sequential


@pytest.mark.parametrize("fork", ["raises", "missing"], ids=["no-pipe-buf", "windows-like"])
def test_without_pipe_buf_lv3_imports_and_integrates_in_process(capsys, cpus, fork):
    # select has no PIPE_BUF on Windows, which has no os.fork either; the
    # probe runs on every CPU of this machine
    argv = STREAMED["csv-monitors"][0]
    cpus(1)
    sequential = _run(capsys, argv)
    no_fork = ("del os.fork\n" if fork == "missing" else
               "def fork():\n    raise AssertionError('forked')\nos.fork = fork\n")
    probe = ("import os, select, sys\ndel select.PIPE_BUF\n" + no_fork
             + f"from lv3 import cli\nsys.exit(cli.main({argv.split()!r}))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout, done.stderr) == sequential


def test_a_run_that_fails_after_blocks_went_to_the_child_fails_as_in_process(
        capsys, cpus, monkeypatch, tmp_path):
    monkeypatch.setattr(lv3.flow, "MAX_ACCEPTED_STEPS", 300)  # two blocks, then the budget
    out = tmp_path / "orbit.csv"
    argv = f"integrate --k 1,1,1,1 --p0 0.3,0.2,0.25 --t 250 --monitor H,V --out {out}"
    for n in (1, 2, 3):
        forked = cpus(n)
        assert _run(capsys, argv) == (1, "", "lv3: accepted-step budget 300 exhausted\n")
        assert len(forked) == (n > 1)
        assert not out.exists()


def test_a_stalled_child_leaves_its_blocks_with_the_parent(capsys, cpus, monkeypatch):
    # 21 blocks: more than a pipe of any size holds while the child sleeps
    argv = "integrate --k 1,1,1,1 --p0 0.3,0.2,0.25 --t 250 --monitor H,V"
    cpus(1)
    sequential = _run(capsys, argv)
    parent, formatter = os.getpid(), cli._rows_text
    in_parent = []

    def stalling(traj, **kwargs):
        if os.getpid() == parent:
            in_parent.append(len(traj.t))
        elif not stalling.slept:  # the child's first block: the pipe fills meanwhile
            stalling.slept = True
            time.sleep(0.5)
        return formatter(traj, **kwargs)

    stalling.slept = False
    monkeypatch.setattr(cli, "_rows_text", stalling)
    forked = cpus(2)
    assert _run(capsys, argv) == sequential
    assert len(forked) == 1
    # the parent formats the blocks the child could not take, and only them
    assert 1 <= len(in_parent) < -(-2639 // ROWS)


@pytest.mark.parametrize("argv", [STREAMED["csv-monitors"][0], STREAMED["json-backward"][0],
                                  MAPPED["portrait"]], ids=["csv", "json", "portrait"])
def test_the_emitters_see_the_same_calls_on_every_cpu_count(capsys, cpus, monkeypatch, argv):
    # perfbench's tracer counts the emitters' calls and rows, and its
    # counters must repeat however the blocks were split between processes
    seen = []
    for name in ("emit_csv", "emit_jsonl"):
        def counted(*args, _name=name, _emit=getattr(cli, name)):
            seen.append((_name, len(args[-2])))
            return _emit(*args)

        monkeypatch.setattr(cli, name, counted)
    calls = []
    for n in (1, 2, 3):
        cpus(n)
        seen.clear()
        assert _run(capsys, argv)[0] == 0
        calls.append(list(seen))
    assert calls[0] == calls[1] == calls[2]


def _blocks(samples):
    """A run of samples as flow hands it out (complete blocks, then the
    rest), and the (times, states) of each block."""
    t = [float(i) for i in range(samples)]
    specials = (-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1)
    states = [(specials[i % 7], -t[i] / 3.0, 1.0 / (t[i] + 1.0)) for i in range(samples)]
    blocks = [Trajectory(tuple(t[a:a + ROWS]), tuple(states[a:a + ROWS]))
              for a in range(0, samples, ROWS)]
    return blocks, [(t[a:a + ROWS], states[a:a + ROWS]) for a in range(0, samples, ROWS)]


def _feed(fn, blocks, fail=None):
    with analysis._Feed(fn) as feed:
        for block in blocks:
            feed.put(block)
        if fail is not None:
            raise fail
        return feed.results()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("samples", [1, ROWS - 1, ROWS, 3 * ROWS + 5])
def test_the_feed_returns_every_block_in_order_bit_for_bit(cpus, n, samples):
    forked = cpus(n)
    blocks, expected = _blocks(samples)
    out = _feed(lambda b: repr((list(b.t), list(b.states))), blocks)
    assert out == [repr((t, s)) for t, s in expected]
    assert len(forked) == (n > 1 and samples >= ROWS)
    _no_child_left()


def test_a_feed_whose_child_sends_nothing_readable_runs_in_process(cpus):
    forked = cpus(2)
    blocks, expected = _blocks(2 * ROWS + 1)
    # a closure does not pickle: the child sends nothing readable
    out = _feed(lambda b: lambda: b.t, blocks)
    assert [f() for f in out] == [tuple(t) for t, _ in expected]
    assert len(forked) == 1
    _no_child_left()


def test_a_run_that_raises_kills_and_reaps_the_feed_child(cpus):
    forked = cpus(2)
    blocks, _ = _blocks(2 * ROWS)

    def slow(block):
        threading.Event().wait(60.0)  # the child would sit here for a minute
        return block

    with pytest.raises(KeyError, match="late"):
        _feed(slow, blocks, fail=KeyError("late"))
    assert len(forked) == 1
    _no_child_left()


def test_a_second_thread_keeps_the_feed_in_process(cpus):
    forked = cpus(2)
    blocks, expected = _blocks(2 * ROWS)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        out = _feed(lambda b: list(b.t), blocks)
    finally:
        stop.set()
        thread.join()
    assert out == [t for t, _ in expected] and forked == []

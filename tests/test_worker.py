"""The forked strand worker of ``homcore.cube_homology``: the same tables
as the serial path, its errors raised in the caller, and no process left
behind."""

import os
import re
import subprocess
import sys
import threading

import pytest

import linkhom
from linkhom import homcore
from linkhom.forkjoin import fork_join
from linkhom.homcore import CubeSpec, cube_blocks, cube_complex, cube_homology
from linkhom.khovanov import _KHOVANOV, _states, khovanov_homology, torus_diagram
from linkhom.linkdiag import braid_closure, parse_braid

# the Khovanov inputs of the benchmark whose split holds at least
# _FORK_MIN generators on each side
FORKED = {
    "T(3,5)": (3, 5),
    "T(3,6)": (3, 6),
    "T(4,4)": (4, 4),
    "3: 1 -2 1 -2 1 -2 1 -2 1 -2": None,
    "3: 1 1 2 1 1 2 2 1 2 2": None,
    "3: 1 2 1 1 1 1 2 2 1 2": None,
}


def diagram(label):
    pq = FORKED[label]
    return torus_diagram(*pq) if pq else braid_closure(parse_braid(label))


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    # the pids of the workers forked, as the parent sees them, on two CPUs
    # whatever the runner has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.mark.parametrize("label", list(FORKED))
def test_worker_tables_equal_the_serial_path(label, forks, monkeypatch):
    d = diagram(label)
    forked = khovanov_homology(d)
    assert len(forks) == 1
    assert_no_child()
    monkeypatch.setattr(homcore, "_FORK_MIN", float("inf"))
    serial = khovanov_homology(d)
    assert len(forks) == 1
    assert forked.to_json() == serial.to_json() and forked.pretty() == serial.pretty()


def test_small_cube_stays_serial(forks):
    khovanov_homology(torus_diagram(3, 4))  # 801 generators per side
    assert forks == []


def test_no_worker_on_one_cpu(forks, monkeypatch):
    d = torus_diagram(3, 5)
    expected = khovanov_homology(d)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert khovanov_homology(d).to_json() == expected.to_json()
    assert len(forks) == 1


def test_no_worker_while_another_thread_runs(forks):
    d = torus_diagram(3, 5)
    expected = khovanov_homology(d)
    done = threading.Event()
    t = threading.Thread(target=done.wait)
    t.start()
    try:
        assert khovanov_homology(d) == expected
    finally:
        done.set()
        t.join(timeout=10)
    assert not t.is_alive()
    assert len(forks) == 1


def test_worker_edge_tables_come_back(forks):
    # every edge table is made before the fork, so the forked path leaves
    # the same tables on the spec as the serial path
    def fresh():
        return CubeSpec(top=_KHOVANOV.top, grading=_KHOVANOV.grading, merge=_KHOVANOV.merge, split=_KHOVANOV.split)

    forked, serial = fresh(), fresh()
    d = torus_diagram(3, 5)
    cube_homology(forked, _states(d))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homcore, "_FORK_MIN", float("inf"))
        cube_homology(serial, _states(d))
    assert len(forks) == 1
    assert forked._edges == serial._edges


def test_d_squared_violations_on_both_sides_of_the_split(forks):
    # Delta(1) = 1X alone keeps the degree but breaks d^2 = 0; the bad
    # blocks fall in the strands of both processes, and the error names
    # them all, sorted
    broken = CubeSpec(
        top=1,
        grading=(1, 1, 2),
        merge=lambda x, y: (x + y,) if x + y <= 1 else (),
        split=lambda x: ((1, 1),) if x else ((0, 1),),
    )
    d = torus_diagram(3, 5)
    c = cube_complex(broken, _states(d))
    bad = sorted(
        (i, j) for (i, j), blk in c.diff.items()
        if (i + 1, j) in c.diff and not homcore._composite_is_zero((i, j), blk, c.diff[i + 1, j])
    )
    mine, theirs = homcore._halves(cube_blocks(broken, _states(d))[0])
    assert {j for _, j in bad} & set(mine) and {j for _, j in bad} & set(theirs)
    with pytest.raises(ValueError, match=re.escape(f"at blocks {bad} of")):
        cube_homology(broken, _states(d))
    assert len(forks) == 1
    assert_no_child()


class StrandError(Exception):
    pass


@pytest.mark.parametrize("error, raised", [(ZeroDivisionError, ZeroDivisionError), (StrandError, RuntimeError)])
def test_worker_exception_reaches_the_caller(error, raised, forks, monkeypatch):
    parent = os.getpid()
    real = homcore._strand_pass

    def failing(blocks):
        if os.getpid() != parent:
            raise error("in the worker")
        return real(blocks)

    monkeypatch.setattr(homcore, "_strand_pass", failing)
    with pytest.raises(raised, match="in the worker") as info:
        khovanov_homology(torus_diagram(3, 5))
    assert "failing" in str(info.value.__cause__)  # the worker's traceback
    assert len(forks) == 1
    assert_no_child()


def test_worker_that_dies_without_a_reply():
    assert fork_join(lambda: 1, lambda: {(0, 1): ((2, 6), 2)}) == (1, {(0, 1): ((2, 6), 2)})
    with pytest.raises(RuntimeError, match="exited with code 3 and no reply"):
        fork_join(lambda: 1, lambda: os._exit(3))
    assert_no_child()


def test_failed_fork_runs_both_sides_here(forks, monkeypatch):
    d = torus_diagram(3, 5)
    expected = khovanov_homology(d)
    assert len(forks) == 1

    def fork():
        raise BlockingIOError("no process")

    monkeypatch.setattr(os, "fork", fork)
    assert khovanov_homology(d).to_json() == expected.to_json()


def test_parent_interrupt_kills_and_reaps_the_worker(forks, monkeypatch):
    parent = os.getpid()
    real = homcore._strand_pass

    def interrupted(blocks):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(blocks)

    monkeypatch.setattr(homcore, "_strand_pass", interrupted)
    with pytest.raises(KeyboardInterrupt):
        khovanov_homology(torus_diagram(3, 5))
    assert len(forks) == 1
    assert_no_child()


def test_worker_flushes_nothing_and_runs_no_exit_handler():
    # a buffered line and an exit handler of the caller appear once: the
    # worker leaves without flushing or running them.  The child claims two
    # CPUs, as the forks fixture does, and reports the workers it forked.
    code = (
        "import atexit, os, sys\n"
        "from linkhom.khovanov import khovanov_homology, torus_diagram\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "pids, real = [], os.fork\n"
        "def fork():\n"
        "    pid = real()\n"
        "    if pid:\n"
        "        pids.append(pid)\n"
        "    return pid\n"
        "os.fork = fork\n"
        "atexit.register(lambda: print('exit handler'))\n"
        "sys.stdout.write('buffered\\n')\n"
        "khovanov_homology(torus_diagram(3, 5))\n"
        "sys.stderr.write(f'forked {len(pids)}\\n')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(linkhom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # the line must sit in the buffer at the fork
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert (done.stdout, done.stderr) == ("buffered\nexit handler\n", "forked 1\n")

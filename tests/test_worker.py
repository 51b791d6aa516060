"""The forked strand worker of ``homcore.cube_homology``: the same tables
as the serial path, whether or not the worker sends its results back, an
error of the strands raised in the caller as its own class, and no
process left behind."""

import os
import re
import signal
import subprocess
import sys
import threading
import time

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


class Affinity:
    """A stand-in for this process's affinity mask: ``fork_join`` reads it
    and pins to it as to the real one, each pin is recorded, and the
    runner's own mask never moves.  A forked worker gets a copy, so what it
    pins stays in the worker, as with the real mask."""

    def __init__(self, cpus):
        self.mask = set(cpus)
        self.calls = []

    def get(self, pid):
        return set(self.mask)

    def set(self, pid, cpus):
        self.calls.append(sorted(cpus))
        self.mask = set(cpus)


@pytest.fixture
def affinity(monkeypatch):
    # two CPUs, whatever the runner has
    a = Affinity({0, 1})
    monkeypatch.setattr(os, "sched_getaffinity", a.get, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", a.set, raising=False)
    return a


@pytest.fixture
def forks(monkeypatch, affinity):
    # the pids of the workers forked, as the parent sees them
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


def _serial(d, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(homcore, "_FORK_MIN", float("inf"))
        return khovanov_homology(d)


@pytest.mark.parametrize("error", [ZeroDivisionError, StrandError])
def test_worker_only_exception_gives_the_serial_table(error, forks, monkeypatch):
    # the worker sends nothing back, and its strands run here
    d = torus_diagram(3, 5)
    expected = _serial(d, monkeypatch)
    parent = os.getpid()
    real = homcore._strand_pass

    def failing(blocks):
        if os.getpid() != parent:
            raise error("in the worker")
        return real(blocks)

    monkeypatch.setattr(homcore, "_strand_pass", failing)
    assert khovanov_homology(d).to_json() == expected.to_json()
    assert len(forks) == 1
    assert_no_child()


@pytest.mark.parametrize("error", [ZeroDivisionError, StrandError])
def test_exception_in_both_processes_keeps_its_class(error, forks, monkeypatch):
    # the worker's strands fail in the worker and again here, where the
    # error is raised with its own type and traceback
    parent = os.getpid()
    real = homcore._strand_pass
    passes = []

    def failing(blocks):
        passes.append(os.getpid())
        if os.getpid() != parent or len(passes) > 1:
            raise error("in the worker's strands")
        return real(blocks)

    monkeypatch.setattr(homcore, "_strand_pass", failing)
    with pytest.raises(error, match="in the worker's strands") as info:
        khovanov_homology(torus_diagram(3, 5))
    assert type(info.value) is error and info.traceback[-1].name == "failing"
    assert passes == [parent, parent]
    assert len(forks) == 1
    assert_no_child()


def test_worker_killed_mid_pass_gives_the_serial_table(forks, monkeypatch):
    d = torus_diagram(3, 5)
    expected = _serial(d, monkeypatch)
    parent = os.getpid()
    real = homcore._strand_pass

    def killed(blocks):
        def stream():
            for n, block in enumerate(blocks):
                if n == 5 and os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield block

        return real(stream())

    monkeypatch.setattr(homcore, "_strand_pass", killed)
    assert khovanov_homology(d).to_json() == expected.to_json()
    assert len(forks) == 1
    assert_no_child()


def test_worker_that_dies_without_a_reply(affinity):
    assert fork_join(lambda: 1, lambda: {(0, 1): ((2, 6), 2)}) == (1, {(0, 1): ((2, 6), 2)})
    parent = os.getpid()
    assert fork_join(lambda: 1, lambda: os._exit(3) if os.getpid() != parent else 2) == (1, 2)
    assert_no_child()


def test_failed_fork_runs_both_sides_here(forks, monkeypatch):
    d = torus_diagram(3, 5)
    expected = khovanov_homology(d)
    assert len(forks) == 1
    monkeypatch.setattr(os, "fork", _no_process)
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
    # CPUs and pins nothing, as the forks fixture does, and reports the
    # workers it forked.
    code = (
        "import atexit, os, sys\n"
        "from linkhom.khovanov import khovanov_homology, torus_diagram\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "os.sched_setaffinity = lambda pid, cpus: None\n"
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


def test_pins_come_from_the_mask(affinity):
    # the worker pins itself to the second CPU of the sorted mask, this
    # process to the first, and the mask read is put back after the join
    affinity.mask = {5, 3}
    assert fork_join(lambda: list(affinity.calls), lambda: list(affinity.calls)) == ([[3]], [[5]])
    assert affinity.calls == [[3], [3, 5]]
    assert affinity.mask == {3, 5}
    assert_no_child()


def _real_mask():
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs a real affinity mask of at least 2 CPUs")
    return os.sched_getaffinity(0)


@pytest.fixture(params=["recorded", "real"])
def mask(request):
    # the mask fork_join reads: {3, 5} through the recorder, or the
    # runner's own, which the join moves and must put back
    if request.param == "recorded":
        request.getfixturevalue("affinity").mask = {3, 5}
    else:
        _real_mask()


_PARENT = os.getpid()  # the test process, which every fork_join below runs in


def _worker_error():
    if os.getpid() != _PARENT:
        raise ZeroDivisionError("in the worker")
    return 2


def _error():
    raise ZeroDivisionError("in both processes")


def _worker_dies():
    if os.getpid() != _PARENT:
        os._exit(3)
    return 2


def _parent_interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "here, there, outcome",
    [
        (lambda: 1, lambda: 2, (1, 2)),
        (lambda: 1, _worker_error, (1, 2)),
        (lambda: 1, _error, ZeroDivisionError),
        (_parent_interrupt, lambda: time.sleep(60), KeyboardInterrupt),
        (lambda: 1, _worker_dies, (1, 2)),
    ],
    ids=["join", "worker-exception", "exception-in-both", "parent-interrupt", "worker-dies"],
)
def test_mask_put_back_on_every_way_out(here, there, outcome, mask):
    before = os.sched_getaffinity(0)
    start = time.monotonic()
    if isinstance(outcome, tuple):
        assert fork_join(here, there) == outcome
    else:
        with pytest.raises(outcome):
            fork_join(here, there)
    assert time.monotonic() - start < 30  # a sleeping worker is killed, not waited for
    assert os.sched_getaffinity(0) == before
    assert_no_child()


def _no_process():
    raise BlockingIOError("no process")


@pytest.mark.parametrize("way", ["one-cpu", "fork-refused", "worker-dies"])
def test_fallback_runs_there_after_here(way, affinity, monkeypatch):
    order = []
    if way == "one-cpu":
        affinity.mask = {0}
    elif way == "fork-refused":
        monkeypatch.setattr(os, "fork", _no_process)

    def there():
        if way == "worker-dies" and os.getpid() != _PARENT:
            os._exit(3)
        order.append("there")
        return 2

    assert fork_join(lambda: order.append("here") or 1, there) == (1, 2)
    assert order == ["here", "there"]
    assert_no_child()


def _refused(pid, cpus):
    raise OSError(22, "Invalid argument")


@pytest.mark.parametrize("pinning", ["refused", "missing"])
def test_worker_without_pinning(pinning, forks, monkeypatch):
    # a refused pin, or a platform without the call, leaves placement to
    # the scheduler and changes nothing else
    d = torus_diagram(3, 5)
    if pinning == "refused":
        monkeypatch.setattr(os, "sched_setaffinity", _refused)
    else:
        monkeypatch.delattr(os, "sched_setaffinity")
    forked = khovanov_homology(d)
    assert len(forks) == 1
    assert_no_child()
    monkeypatch.setattr(homcore, "_FORK_MIN", float("inf"))
    serial = khovanov_homology(d)
    assert len(forks) == 1
    assert forked.to_json() == serial.to_json() and forked.pretty() == serial.pretty()


def test_join_runs_on_the_first_two_cpus_of_the_real_mask():
    before = _real_mask()
    first, second = sorted(before)[:2]

    def mask():
        return sorted(os.sched_getaffinity(0))

    assert fork_join(mask, mask) == ([first], [second])
    assert os.sched_getaffinity(0) == before
    assert_no_child()

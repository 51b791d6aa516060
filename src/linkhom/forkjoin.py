"""Two calls at once, one in this process and one in a forked worker.

``fork_join(here, there)`` forks one worker that runs ``there`` and sends
its result back through a pipe with ``marshal``, runs ``here`` in this
process meanwhile, and returns both results.  The worker shares this
process's heap as it was at the fork, so ``there`` reads what was built
before without a copy; what it changes dies with it, and only its result
comes back.  While both run, each is pinned to a CPU of its own, and
this process's affinity mask is put back when the join is over.

Whenever no result comes back, ``there`` runs in this process after
``here``: where no worker can run beside this process, where the fork is
refused, and where the worker raises, dies or exits with any code but 0.
As ``there`` reads only what existed at the fork, the second run gives
the same result, and an exception it raises here keeps its own type and
traceback.
"""

from __future__ import annotations

import gc
import marshal
import os
import signal
import threading
from typing import Callable


def fork_join(here: Callable[[], object], there: Callable[[], object]) -> tuple[object, object]:
    """``(here(), there())``, with ``there`` run in one forked worker where
    one may run: the platform has ``os.fork``, this process may use two or
    more CPUs, and it runs one thread (a fork copies only the calling
    thread, and a lock another thread holds would stay locked in the
    worker).

    ``there`` must return what ``marshal`` can write: ints, strings,
    tuples, lists, dicts and the like, and must read only what existed
    before the call.  The worker leaves by ``os._exit`` only, so it
    flushes no inherited buffer and runs no exit handler.  On any
    exception of this process, KeyboardInterrupt included, the worker is
    killed; it is reaped before this returns or raises.  When the worker
    sends no result, ``there`` runs here after ``here``.

    The worker pins itself to the second CPU of the affinity mask, in
    sorted order, as its first act, and this process to the first; the
    mask read here is put back on every way out of the join.  Pinning is
    best effort: where it is refused or the platform has no
    ``os.sched_setaffinity``, the scheduler places both processes.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else list(range(os.cpu_count() or 1))
    worker = _fork(there, cpus) if hasattr(os, "fork") and len(cpus) > 1 and threading.active_count() == 1 else None
    if worker is None:
        return here(), there()
    pid, r = worker
    try:
        _pin({cpus[0]})
        with os.fdopen(r, "rb") as f:
            mine = here()
            data = f.read()
        status = os.waitpid(pid, 0)[1]
        pid = 0
    finally:
        _pin(set(cpus))  # first, so that an interrupt while reaping cannot skip it
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return mine, marshal.loads(data) if status == 0 else there()


def _fork(there: Callable[[], object], cpus: list[int]) -> tuple[int, int] | None:
    # the pid of a worker that writes marshal.dumps(there()) and exits 0,
    # and the end of the pipe it writes to; None when the fork is refused
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had
        os.close(r)
        os.close(w)
        return None
    if pid == 0:  # the worker
        code = 1
        try:
            _pin({cpus[1]})
            os.close(r)
            # its heap is the parent's: a full collection would touch, and
            # so copy, every page of it
            gc.disable()
            data = marshal.dumps(there())
            with os.fdopen(w, "wb") as f:
                f.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _pin(cpus: set[int]) -> None:
    # run this process on ``cpus`` only, where the system has the call
    # and lets it
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass

"""Two calls at once, one in this process and one in a forked worker.

``fork_join(here, there)`` forks one worker that runs ``there`` and sends
its result back through a pipe with ``marshal``, runs ``here`` in this
process meanwhile, and returns both results.  The worker shares this
process's heap as it was at the fork, so ``there`` reads what was built
before without a copy; what it changes dies with it, and only its result
comes back.
"""

from __future__ import annotations

import builtins
import gc
import marshal
import os
import signal
import threading
from typing import Callable


def can_fork() -> bool:
    """Whether a worker may be forked and run beside this process: the
    platform has ``os.fork``, this process may use a second CPU, and it
    runs one thread (a fork copies only the calling thread, and a lock
    another thread holds would stay locked in the worker)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return hasattr(os, "fork") and cpus > 1 and threading.active_count() == 1


def fork_join(here: Callable[[], object], there: Callable[[], object]) -> tuple[object, object]:
    """``(here(), there())``, with ``there`` run in one forked worker.

    ``there`` must return what ``marshal`` can write: ints, strings,
    tuples, lists, dicts and the like.  The worker leaves by ``os._exit``
    only, so it flushes no inherited buffer and runs no exit handler.  An
    exception in it is raised here: as the same built-in type with the
    same message, or as a RuntimeError naming any other type, caused by a
    RuntimeError that holds the worker's traceback.  On any exception of
    this process, KeyboardInterrupt included, the worker is killed; it is
    reaped before this returns or raises.  When the fork itself fails,
    both calls run here, ``here`` first.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: both calls run here
        os.close(r)
        os.close(w)
        return here(), there()
    if pid == 0:  # the worker
        code = 1
        try:
            os.close(r)
            # its heap is the parent's: a full collection would touch, and
            # so copy, every page of it
            gc.disable()
            try:
                reply = ("ok", there())
            except BaseException as exc:  # sent back, and raised by the parent
                import traceback

                reply = ("error", type(exc).__name__, str(exc), traceback.format_exc())
            with os.fdopen(w, "wb") as f:
                f.write(marshal.dumps(reply))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as f:
            mine = here()
            data = f.read()
        status = os.waitpid(pid, 0)[1]
        pid = 0
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"the worker exited with code {os.waitstatus_to_exitcode(status)} and no reply")
    reply = marshal.loads(data)
    if reply[0] == "error":
        _, name, message, trace = reply
        cls = getattr(builtins, name, None)
        exc = None
        if isinstance(cls, type) and issubclass(cls, BaseException):
            try:
                exc = cls(message)
            except TypeError:  # a built-in type that takes other arguments
                pass
        raise exc or RuntimeError(f"{name}: {message}") from RuntimeError(f"in the worker:\n{trace}")
    return mine, reply[1]

"""Guards shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    # a test may start processes, but it must reap them: one left running
    # or as a zombie fails the test that left it
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid == 0:
        pytest.fail("a child process is still running after the test")
    pytest.fail(f"child process {pid} was left as a zombie (status {status})")

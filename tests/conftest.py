"""Checks that every test of the suite shares."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process, running or unreaped: a
    forked part of the .t3 reader or a worker of --jobs."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("the test left a child process")
